"""Restriction norms on space-time Fourier data.

Every norm here is a weighted trapezoid sum applied directly to the stored
coefficients u_hat(n, tau); nothing is transformed first.  The three core
norms:

  X^{s,b}:  || <n>^s <tau+|n|^2>^b u_hat ||_{l^2_n L^2_tau}
  Y^{s,b}:  || <n>^s u_hat ||_{l^2_n L^1_tau}
              + || <tau+|n|^2>^{s/2+b} u_hat ||_{l^2_n L^2_tau}
  Z^{s,b}:  X-norm of the low-modulation part plus Y-norm of the
            high-modulation part, split at |tau+|n|^2| = MOD_THRESHOLD * |n|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    SpaceTimeField,
    _ifftn,
    _next_fast_len,
    _time_kernel,
    dyadic_blocks,
    low_modulation_mask,
    project_dyadic,
    time_slices,
)


@dataclass(frozen=True)
class NormParams:
    """Regularity s and modulation exponent b."""

    s: float
    b: float = 2.0 / 3.0


# t-samples per unit time of the sampled sup in ct_hs_norm and of the time
# quadrature in l4_spacetime_norm.
_CT_TIMES_PER_UNIT = 8
_L4_TIMES_PER_UNIT = 16

# Spatial columns per block of the X-norm, which bounds its temporaries.
_X_BLOCK = 32


def _on_span(u):
    """Data, modulation, quadrature weights and |n|^2 on u's nonzero tau-span.

    Every integrand below vanishes off the span, so the norms cost the span,
    not the window; on a full-span field the arithmetic is the window's.
    """
    a, b = u.tau_span()
    return (u.on(a, b), u.mod_array((a, b)), u.grid.weights_on(a, b),
            u.norm_sq_columns().astype(float))


def _bracket_sq(mod):
    return 1.0 + mod * mod


def _tau_integral(a, weights):
    """The tau quadrature of each row of ``a`` (K, L) against ``weights`` (L, ...),
    by one unthreaded einsum, whose bits do not follow the BLAS thread count."""
    return np.einsum("kl,l...->k...", a, weights)


def _l2_tau_sq(data, bracket_sq, weights, mod_power):
    """Per-column Int <tau+|n|^2>^{2 mod_power} |u|^2 dtau by the grid quadrature."""
    integrand = np.abs(data) ** 2
    if mod_power != 0.0:
        integrand = integrand * bracket_sq ** mod_power
    return _tau_integral(integrand, weights)


def _energy(data, weights, nsq, s):
    l1 = _tau_integral(np.abs(data), weights)
    return float(np.sqrt(((1.0 + nsq) ** s * l1 * l1).sum()))


def _y_norm(data, bracket_sq, weights, nsq, p):
    return _energy(data, weights, nsq, p.s) + float(
        np.sqrt(_l2_tau_sq(data, bracket_sq, weights, p.s / 2.0 + p.b).sum()))


def xsb_norm(u, p):
    """|| <n>^s <tau+|n|^2>^b u_hat ||_{l^2 L^2}."""
    return norms_over_s(u, p.b, [p.s], "X")[0]


def _x_columns(u, b):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau on u's nonzero tau-span.

    Taken about _X_BLOCK columns at a time, so the float temporaries stay a
    few MB on any window; per column the arithmetic is that of the whole span.
    """
    lo, hi = u.tau_span()
    w = u.grid.weights_on(lo, hi)
    nodes = u.grid.nodes_on(lo, hi)[None, :]
    data = u.on(lo, hi)
    nsq = u.norm_sq_columns().astype(float)
    cols = np.empty(len(nsq))
    bounds = [*range(0, len(nsq), _X_BLOCK), len(nsq)]
    for i, j in zip(bounds[:-1], bounds[1:]):
        mod = nodes + nsq[i:j, None]
        cols[i:j] = _l2_tau_sq(data[i:j], _bracket_sq(mod), w, b)
    return cols


def energy_l2l1(u, s):
    """|| <n>^s u_hat ||_{l^2_n L^1_tau}, the H^s-energy functional."""
    data, _, w, nsq = _on_span(u)
    return _energy(data, w, nsq, s)


def ysb_norm(u, p):
    """Energy term plus the modulation-weighted L^2 term with exponent s/2 + b."""
    data, mod, w, nsq = _on_span(u)
    return _y_norm(data, _bracket_sq(mod), w, nsq, p)


def zsb_norm(u, p):
    """X-norm below the modulation split plus Y-norm above it."""
    return norms_over_s(u, p.b, [p.s], "Z")[0]


def _z_factors(mod, nsq, p):
    """What the Z-norm needs of the modulations ``mod`` (K, L) besides the data.

    The lo entries as index arrays, <sigma>^{2b} on them, <sigma>^{s+2b} on
    every entry, and (1+|n|^2)^s per column.
    """
    lo = np.nonzero(low_modulation_mask(mod, nsq))
    bracket_sq = _bracket_sq(mod)
    return lo, bracket_sq[lo] ** p.b, bracket_sq ** (p.s / 2.0 + p.b), (1.0 + nsq) ** p.s


def _z_apply(data, factors, weights):
    """Z-norm of ``data`` (K, L) from its ``_z_factors`` and quadrature weights.

    The lo integrand and the hi |u| are entry for entry those of the X- and
    Y-norms of the lo and hi projections, with the same reductions.
    """
    lo, x_weight, y_weight, col_weight = factors
    hi = np.abs(data)
    x_integrand = np.zeros_like(hi)
    x_integrand[lo] = hi[lo] ** 2 * x_weight
    hi[lo] = 0.0
    x = float(np.sqrt((col_weight * _tau_integral(x_integrand, weights)).sum()))
    l1 = _tau_integral(hi, weights)
    energy = float(np.sqrt((col_weight * l1 * l1).sum()))
    return x + (energy + float(np.sqrt(_tau_integral(hi ** 2 * y_weight, weights).sum())))


def norms_over_s(u, b, s_values, mode):
    """The X^{s,b} (mode 'X') or Z^{s,b} (mode 'Z') norm of u for each s.

    u's stored block is read once, to find its nonzero tau-span, and every s is
    normed on that span by the float operations of a one-s norm.  For X the
    column integrals are formed once and only (1+|n|^2)^s per s; for Z each
    s redoes the whole ``_z_factors``/``_z_apply`` work on the span.
    """
    if mode == "X":
        nsq = u.norm_sq_columns().astype(float)
        cols = _x_columns(u, b)
        return [float(np.sqrt(((1.0 + nsq) ** s * cols).sum())) for s in s_values]
    if mode == "Z":
        data, mod, w, nsq = _on_span(u)
        return [_z_apply(data, _z_factors(mod, nsq, NormParams(s, b)), w) for s in s_values]
    raise ValueError("mode must be 'X' or 'Z'")


def spatial_hs_norm(ns, vals, s):
    """H^s norm of spatial coefficients at the given lattice points."""
    vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
    ns = np.asarray(ns, dtype=np.int64).reshape(len(vals), -1)
    w = (1.0 + (ns * ns).sum(axis=1).astype(float)) ** s
    return float(np.sqrt((w * np.abs(vals) ** 2).sum()))


def ct_hs_norm(u, s, t_window):
    """sup over sampled t in the window of the H^s norm of u(t).

    u(n, t) is recovered per column by the inverse time-transform quadrature;
    t is sampled at _CT_TIMES_PER_UNIT points per unit time.
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("empty time window")
    nyquist = np.pi / u.grid.tau_step
    if max(abs(t0), abs(t1)) > nyquist:
        raise ValueError("time window exceeds the reciprocal resolution of the tau-grid")
    count = max(2, int(np.ceil((t1 - t0) * _CT_TIMES_PER_UNIT)) + 1)
    times = np.linspace(t0, t1, count)
    slices = _tau_integral(u.on_window().data, _time_kernel(u.grid, times))
    w = (1.0 + u.norm_sq_columns().astype(float)) ** s
    vals = np.sqrt((w[:, None] * np.abs(slices) ** 2).sum(axis=0))
    return float(vals.max())


def l4_spacetime_norm(u, t_window):
    """Physical-space L^4 norm over T^d x window, synthesized on twice the box side."""
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("empty time window")
    grid = u.grid
    count = max(3, int(np.ceil((t1 - t0) * _L4_TIMES_PER_UNIT)) + 1)
    times = np.linspace(t0, t1, count)
    tw = np.full(count, (t1 - t0) / (count - 1))
    tw[0] *= 0.5
    tw[-1] *= 0.5
    slices = time_slices(u, times)
    P = _next_fast_len(2 * grid.box_side)
    shape = (P,) * grid.dimension + (count,)
    spectral = np.zeros(shape, dtype=np.complex128)
    idx = [u.index[:, a] % P for a in range(grid.dimension)]
    spectral[tuple(idx)] = slices
    phys = _ifftn(spectral, grid.dimension) * P**grid.dimension
    cell = (2.0 * np.pi / P) ** grid.dimension
    integrand = (np.abs(phys) ** 4).reshape(-1, count)
    return float((integrand.sum(axis=0) * cell * tw).sum() ** 0.25)


def dyadic_norm_profile(u, p):
    """Per dyadic block N, the Z^{s,b} norm of the block projection."""
    return [(blk.N, zsb_norm(project_dyadic(u, blk), p)) for blk in dyadic_blocks(u.grid)]


def apply_modulation_weight(u, power):
    """Multiply coefficients by <tau + |n|^2>^power (used for the Duhamel weight).

    The result stores u's nonzero tau-span only.
    """
    a, b = u.tau_span()
    out = u.on(a, b) * _bracket_sq(u.mod_array((a, b))) ** (power / 2.0)
    return SpaceTimeField(u.grid, u.index.copy(), out, a)
