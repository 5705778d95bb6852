"""Invariant suite behind the `check` command and the acceptance tests.

Each check returns a CheckResult; `run_all` executes the whole battery.
Inequalities the theory states only up to a constant are tested two-pass:
the constant is calibrated on one seeded sample set and asserted with 2x
headroom on a disjoint validation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import sigma_lattice, window_sums
from .families import build_family, conjugate_product, product_support, tent_pairs
from .grid import (
    MOD_THRESHOLD,
    FrequencyGrid,
    SpaceTimeField,
    _Factors,
    conjugate_reflect,
    dyadic_blocks,
    japanese_bracket,
    project_dyadic,
    project_modulation,
    random_field,
    spacetime_convolve,
)
from .norms import (
    NormParams,
    _l4_integrals,
    _l4_times,
    _x_weight,
    ct_hs_norm,
    energy_l2l1,
    xsb_norm,
    ysb_norm,
    zsb_norm,
)
from .sweep import fit_loglog


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _check_grid():
    return FrequencyGrid.for_box(2, 4, 0.25)


def _sample_fields(seed, count):
    """``count`` seeded random fields on the check grid, drawn lazily: each is
    drawn when the caller takes it, so a check that drops it holds one."""
    grid = _check_grid()
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_field(grid, rng, envelope_power=-1.0)


_NORMS = (xsb_norm, ysb_norm, zsb_norm, lambda u, p: energy_l2l1(u, p.s))


def check_homogeneity(seed=101):
    """|alpha| homogeneity of every norm, machine precision."""
    p = NormParams(s=-0.6)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for u in _sample_fields(seed, 100):
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        for fn in _NORMS:
            base = fn(u, p)
            scaled = fn(alpha * u, p)
            worst = max(worst, abs(scaled - abs(alpha) * base) / max(base, 1e-300))
    return CheckResult("norm homogeneity (100 random fields)", worst < 1e-12,
                       f"max relative defect {worst:.2e}")


def check_triangle(seed=102):
    p = NormParams(s=-0.6)
    worst = -np.inf
    fields = _sample_fields(seed, 200)
    for u, v in zip(fields, fields):  # the draws two at a time
        for fn in _NORMS:
            nu, nv = fn(u, p), fn(v, p)
            excess = fn(u + v, p) - nu - nv
            worst = max(worst, excess / max(nu + nv, 1e-300))
    return CheckResult("norm triangle inequality (100 random pairs)", worst < 1e-12,
                       f"max relative excess {worst:.2e}")


def check_monotonic_mask(seed=103):
    """Z-norm monotonicity under pointwise masks with values in [0, 1]."""
    p = NormParams(s=-0.6)
    rng = np.random.default_rng(seed + 1)
    worst = -np.inf
    for u in _sample_fields(seed, 100):
        mask = rng.uniform(0.0, 1.0, size=u.data.shape)
        masked = SpaceTimeField(u.grid, u.index.copy(), u.data * mask)
        z = zsb_norm(u, p)
        worst = max(worst, (zsb_norm(masked, p) - z) / z)
    return CheckResult("Z-norm monotone under [0,1] masks", worst <= 1e-14,
                       f"max relative violation {worst:.2e}")


def check_dyadic_pythagoras(seed=104):
    """Sum over blocks of xsb(P_N u)^2 equals xsb(u)^2 to 1e-12 relative."""
    p = NormParams(s=-0.6)
    worst = 0.0
    for u in _sample_fields(seed, 20):
        total = xsb_norm(u, p) ** 2
        parts = sum(xsb_norm(project_dyadic(u, blk), p) ** 2 for blk in dyadic_blocks(u.grid))
        worst = max(worst, abs(parts - total) / total)
    return CheckResult("dyadic Pythagoras for X (exact)", worst < 1e-12,
                       f"max relative defect {worst:.2e}")


def check_lohi_partition(seed=105):
    ok = True
    for u in _sample_fields(seed, 20):
        lo = project_modulation(u, "lo")
        hi = project_modulation(u, "hi")
        back = lo + hi
        ok &= np.array_equal(back.index, u.index) and np.array_equal(back.data, u.data)
        ok &= not np.abs(lo.data * hi.data).any()
    return CheckResult("lo/hi modulation split partitions exactly", bool(ok),
                       "bitwise partition and disjoint supports" if ok else "partition broken")


def check_convolution_tent():
    """Product data of each family equals the closed-form tent to 1e-12.

    The tent is the paper formula; at the three offsets where both indicator
    jumps collide the trapezoid jump-average sampling shifts the value by
    exactly -h/2 (center) and +h/4 (base corners), which the discrete oracle
    accounts for in closed form.
    """
    worst = 0.0
    for kind in ("example1", "example2", "remark_uu"):
        for N in (4, 8):
            grid = FrequencyGrid.for_box(2, N, 0.25)
            inst = build_family(kind, N, grid)
            prod = conjugate_product(inst)
            col, center = product_support(kind, N, 2)
            if prod.n_columns != 1 or tuple(prod.index[0]) != col:
                return CheckResult("convolution matches analytic tent", False,
                                   f"{kind} N={N}: wrong product support")
            for vals, tent in tent_pairs(prod, col, center):
                denom = np.maximum(np.abs(tent), 1.0)
                worst = max(worst, float((np.abs(vals - tent) / denom).max()))
    return CheckResult("convolution matches analytic tent (1e-12)", worst < 1e-12,
                       f"max relative deviation {worst:.2e}")


def _calibrate_validate(pairs_cal, pairs_val):
    """Fit C = max ratio on calibration pairs, assert <= 2C on validation pairs."""
    C = max(num / den for num, den in pairs_cal)
    worst = max(num / den for num, den in pairs_val)
    return C, worst, worst <= 2.0 * C


def check_embedding_chain(seed=106):
    """ct_hs <= energy and energy <= C * zsb with calibrated C and 2x headroom."""
    p = NormParams(s=-0.6)
    pairs, sup_ok = [], True
    for i, u in enumerate(_sample_fields(seed, 100)):  # 50 calibration, then validation
        pairs.append((energy_l2l1(u, p.s), zsb_norm(u, p)))
        if 50 <= i < 60:
            sup_ok &= ct_hs_norm(u, p.s, (-0.5, 0.5)) <= pairs[-1][0] * (1 + 1e-9)
    C, worst, ok = _calibrate_validate(pairs[:50], pairs[50:])
    passed = ok and sup_ok
    return CheckResult("embedding chain ct_hs <= energy <= C zsb (2x headroom)",
                       bool(passed), f"calibrated C {C:.3f}, validation max {worst:.3f}")


def check_est2_embedding(seed=107):
    """zsb <= C xsb for s <= 0 (the X-space embeds in Z)."""
    p = NormParams(s=-0.6)
    pairs = [(zsb_norm(u, p), xsb_norm(u, p)) for u in _sample_fields(seed, 100)]
    C, worst, ok = _calibrate_validate(pairs[:50], pairs[50:])
    return CheckResult("Z embeds in X for s<=0 (2x headroom)", ok,
                       f"calibrated C {C:.3f}, validation max {worst:.3f}")


def check_weight_inequality():
    """Pointwise on the hi region, s = -0.6: <mod>^{s/2+b} <= C <n>^s <mod>^b."""
    s = -0.6
    grid = _check_grid()
    u = SpaceTimeField.full(grid)
    mod = u.mod_array()
    nsq = u.norm_sq_columns().astype(float)
    hi = np.abs(mod) >= MOD_THRESHOLD * nsq[:, None]
    lhs = japanese_bracket(mod[hi]) ** (s / 2.0)
    ncol = japanese_bracket(np.sqrt(nsq))[:, None]
    rhs = np.broadcast_to(ncol**s, mod.shape)[hi]
    threshold_bracket = japanese_bracket(MOD_THRESHOLD * nsq)
    C = float((threshold_bracket ** (s / 2.0) / japanese_bracket(np.sqrt(nsq)) ** s).max())
    ok = bool((lhs <= C * rhs * (1 + 1e-12)).all())
    return CheckResult("hi-region weight inequality", ok, f"explicit constant C {C:.3f}")


def check_cauchy_schwarz_constant(seed=108):
    """energy <= sqrt(Int <sigma>^{-2b}) * xsb with the grid quadrature constant."""
    p = NormParams(s=-0.6)
    ok = True
    worst = 0.0
    for u in _sample_fields(seed, 25):
        csq = (_Factors(u).weight(_x_weight, -p.b)(slice(None)) * u.grid.tau_weights).sum(axis=1)
        C = float(np.sqrt(csq.max()))
        lhs = energy_l2l1(u, p.s)
        rhs = C * xsb_norm(u, p)
        worst = max(worst, lhs / rhs)
        ok &= lhs <= rhs * (1 + 1e-12)
    return CheckResult("Cauchy-Schwarz energy bound with explicit constant", bool(ok),
                       f"max saturation {worst:.3f}")


def check_dyadic_z_equivalence(seed=109):
    """1/3 <= sum_N zsb(P_N u)^2 / zsb(u)^2 <= 3 (three-term norm comparison)."""
    p = NormParams(s=-0.6)
    lo, hi = np.inf, -np.inf
    for u in _sample_fields(seed, 100):
        total = zsb_norm(u, p) ** 2
        parts = sum(zsb_norm(project_dyadic(u, blk), p) ** 2 for blk in dyadic_blocks(u.grid))
        r = parts / total
        lo, hi = min(lo, r), max(hi, r)
    ok = lo >= 1.0 / 3.0 - 1e-12 and hi <= 3.0 + 1e-12
    return CheckResult("dyadic Z-norm equivalence within [1/3, 3]", bool(ok),
                       f"measured ratio range [{lo:.3f}, {hi:.3f}]")


def check_convolution_bilinear(seed=110):
    grid = _check_grid()
    rng = np.random.default_rng(seed)
    f, g, h = (random_field(grid, rng) for _ in range(3))
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    left = spacetime_convolve(alpha * f + g, h)
    right = alpha * spacetime_convolve(f, h) + spacetime_convolve(g, h)
    diff = (left - right).max_abs() / max(left.max_abs(), 1e-300)
    return CheckResult("convolution bilinearity", diff < 1e-12, f"relative defect {diff:.2e}")


def _free_slices_and_x(grid, ns, vals, b, times):
    """Time slices at ``times``, shape (K, len(times)), and X^{0,b} column
    integrals, shape (K,), of the free evolution of (ns, vals), never built.

    Its data phi(n) F(eta)(tau + |n|^2) is a function of sigma on each
    column, so each tau-integral is a window sum on the sigma-lattice
    (``cutoffs.window_sums``): the column integral is |phi(n)|^2 times that of
    <sigma>^{2b} |F(eta)|^2, and the slice at t is phi(n) e^{-it|n|^2} times
    that of F(eta) e^{it sigma}.
    """
    lattice, j_max = sigma_lattice(grid)
    sigma = (np.arange(len(lattice)) - j_max) * grid.tau_step
    nsq = FrequencyGrid.norm_sq(ns)

    def waves(t):
        f = np.multiply.outer(sigma, 1j * times[t])
        np.exp(f, out=f)
        f *= lattice[:, None]
        return f

    x_cols = window_sums(grid, nsq, j_max,
                         lambda t: (_x_weight(sigma, b) * np.abs(lattice) ** 2)[:, None], 1)[:, 0]
    slices = window_sums(grid, nsq, j_max, waves, len(times))
    slices *= vals[:, None] * np.exp(np.multiply.outer(nsq, -1j * times))
    return slices, np.abs(vals) ** 2 * x_cols


def _free_l4_and_x(grid, ns, vals, b):
    """L^4 norm over t in [-1, 1] and X^{0,b} norm of the free evolution of
    (ns, vals), from its lattice window sums (``_free_slices_and_x``)."""
    times, tw = _l4_times((-1.0, 1.0))
    slices, x_cols = _free_slices_and_x(grid, ns, vals, b, times)
    l4 = float((_l4_integrals(grid, [(ns, slices)], len(times)) * tw).sum() ** 0.25)
    return l4, float(np.sqrt(x_cols.sum()))


def check_l4_slope(seed=111):
    """L^4/X^{0,0.38} growth across dyadic free data stays under the Strichartz
    slope 0.26 plus 0.05."""
    rng = np.random.default_rng(seed)
    n_values = (4, 8, 16, 32)
    ratios = []
    for N in n_values:
        grid = FrequencyGrid.for_box(2, N, tau_step=0.5)
        nsq = FrequencyGrid.norm_sq(grid.box_index)
        ns = grid.box_index[(4 * nsq > N**2) & (nsq <= N**2)]  # the annulus, row-major
        vals = np.exp(2j * np.pi * rng.uniform(size=len(ns)))
        l4, x = _free_l4_and_x(grid, ns, vals, 0.38)
        ratios.append(l4 / x)
    slope, _, _ = fit_loglog(n_values, ratios)
    return CheckResult("L4/X^(0,0.38) slope <= 0.31", slope <= 0.31,
                       f"fitted slope {slope:+.4f}")


def check_reflect_isometries(seed=112):
    """conjugate_reflect is an involution and preserves the reflection-invariant norms.

    The modulation-weighted norms are *not* preserved (the weight recenters to
    the conjugate paraboloid), so only energy and C_t H^s are asserted.
    """
    ok = True
    worst = 0.0
    for u in _sample_fields(seed, 25):
        r = conjugate_reflect(u)
        rr = conjugate_reflect(r)
        ok &= np.array_equal(rr.data, u.data) and np.array_equal(rr.index, u.index)
        for fn in (lambda w: energy_l2l1(w, -0.6),
                   lambda w: ct_hs_norm(w, -0.6, (-0.5, 0.5))):
            a, b_ = fn(u), fn(r)
            worst = max(worst, abs(a - b_) / max(a, 1e-300))
    return CheckResult("conjugate reflection: involution + invariant norms",
                       bool(ok and worst < 1e-9), f"max norm defect {worst:.2e}")


def run_all(seed=2024):
    return [
        check_homogeneity(seed),
        check_triangle(seed + 1),
        check_monotonic_mask(seed + 2),
        check_dyadic_pythagoras(seed + 3),
        check_lohi_partition(seed + 4),
        check_convolution_tent(),
        check_embedding_chain(seed + 5),
        check_est2_embedding(seed + 6),
        check_weight_inequality(),
        check_cauchy_schwarz_constant(seed + 7),
        check_dyadic_z_equivalence(seed + 8),
        check_convolution_bilinear(seed + 9),
        check_l4_slope(seed + 10),
        check_reflect_isometries(seed + 11),
    ]
