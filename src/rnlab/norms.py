"""Restriction norms on space-time Fourier data.

Every norm here is a weighted trapezoid sum applied directly to the stored
coefficients u_hat(n, tau); nothing is transformed first.  The three core
norms:

  X^{s,b}:  || <n>^s <tau+|n|^2>^b u_hat ||_{l^2_n L^2_tau}
  Y^{s,b}:  || <n>^s u_hat ||_{l^2_n L^1_tau}
              + || <tau+|n|^2>^{s/2+b} u_hat ||_{l^2_n L^2_tau}
  Z^{s,b}:  X-norm of the low-modulation part plus Y-norm of the
            high-modulation part, split at |tau+|n|^2| = MOD_THRESHOLD * |n|^2.

Each norm builds its factors, then applies them to the stored block.  The
factors (the modulation weights, the lo entries and the column weights)
depend on the grid, the columns, the stored block, (s, b) and the split,
never on the data, so each is built once per key and held read-only in the
byte-bounded cache of ``grid._Factors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as grid_module
from .grid import (
    SpaceTimeField,
    _Factors,
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

# Spatial columns per block of an X-norm too large for the weight cache,
# which bounds its temporaries.
_X_BLOCK = 32


def _bracket_sq(mod):
    return 1.0 + mod * mod


# -- factors: what a norm needs of the columns besides the data ----------------
#
# Builders for ``grid._Factors``, each of the modulations (K, L) and |n|^2 (K,).


def _x_weight(mod, nsq, b):
    """<sigma>^{2b} on every entry."""
    return _bracket_sq(mod) ** b


def _lo_factors(mod, nsq, b):
    """The Z-norm's s-independent factors: the lo entries, as index arrays, and
    <sigma>^{2b} on them."""
    lo = np.nonzero(low_modulation_mask(mod, nsq))
    return lo, _bracket_sq(mod)[lo] ** b


def _s_factors(mod, nsq, s, b):
    """The Y-norm's factors, also the Z-norm's s-dependent ones: <sigma>^{s+2b}
    on every entry and (1+|n|^2)^s per column."""
    return _bracket_sq(mod) ** (s / 2.0 + b), (1.0 + nsq) ** s


def _z_factors(mod, nsq, p):
    """All the Z-norm's factors, in the order ``_z_apply`` takes them."""
    return _lo_factors(mod, nsq, p.b) + _s_factors(mod, nsq, p.s, p.b)


# -- apply: the data's part of each norm ----------------------------------------


def _tau_integral(a, weights):
    """The tau quadrature of each row of ``a`` (K, L) against ``weights`` (L, ...),
    by one unthreaded einsum, whose bits do not follow the BLAS thread count."""
    return np.einsum("kl,l...->k...", a, weights)


def _x_apply(data, x_weight, weights):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau from ``_x_weight``."""
    return _tau_integral(np.abs(data) ** 2 * x_weight, weights)


def _y_apply(hi, y_weight, col_weight, weights):
    """Y-norm of a field with |u| = ``hi`` from its ``_s_factors``: the energy
    term plus the modulation-weighted L^2 term."""
    l1 = _tau_integral(hi, weights)
    energy = float(np.sqrt((col_weight * l1 * l1).sum()))
    return energy + float(np.sqrt(_tau_integral(hi ** 2 * y_weight, weights).sum()))


def _z_split(data, lo, x_weight, weights):
    """|u| zeroed on the lo entries, and per column the lo integral of
    <sigma>^{2b} |u|^2: the s-independent part of the Z-norm."""
    hi = np.abs(data)
    x_integrand = np.zeros_like(hi)
    x_integrand[lo] = hi[lo] ** 2 * x_weight
    hi[lo] = 0.0
    return hi, _tau_integral(x_integrand, weights)


def _z_sum(hi, x_cols, y_weight, col_weight, weights):
    """X-norm of the lo part plus Y-norm of the hi part, from ``_z_split``."""
    x = float(np.sqrt((col_weight * x_cols).sum()))
    return x + _y_apply(hi, y_weight, col_weight, weights)


def _z_apply(data, factors, weights):
    """Z-norm of ``data`` (K, L) from its ``_z_factors`` and quadrature weights.

    The lo integrand and the hi |u| are entry for entry those of the X- and
    Y-norms of the lo and hi projections, with the same reductions.
    """
    lo, x_weight, y_weight, col_weight = factors
    return _z_sum(*_z_split(data, lo, x_weight, weights), y_weight, col_weight, weights)


# -- the norms --------------------------------------------------------------------


def xsb_norm(u, p):
    """|| <n>^s <tau+|n|^2>^b u_hat ||_{l^2 L^2}."""
    return norms_over_s(u, p.b, [p.s], "X")[0]


def _x_columns(u, b):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau on u's stored block.

    A block too large for the weight cache is taken _X_BLOCK columns at a
    time, so the float temporaries stay a few MB on any window; per column
    the arithmetic is that of the whole block.
    """
    w = u.grid.weights_on(*u.stored)
    if u.data.size <= grid_module._CACHED_ENTRIES:
        return _x_apply(u.data, _Factors(u)(_x_weight, b), w)
    nodes = u.grid.nodes_on(*u.stored)[None, :]
    nsq = u.norm_sq_columns().astype(float)
    cols = np.empty(len(nsq))
    bounds = [*range(0, len(nsq), _X_BLOCK), len(nsq)]
    for i, j in zip(bounds[:-1], bounds[1:]):
        cols[i:j] = _x_apply(u.data[i:j], _x_weight(nodes + nsq[i:j, None], None, b), w)
    return cols


def energy_l2l1(u, s):
    """|| <n>^s u_hat ||_{l^2_n L^1_tau}, the H^s-energy functional."""
    l1 = _tau_integral(np.abs(u.data), u.grid.weights_on(*u.stored))
    return float(np.sqrt(((1.0 + u.norm_sq_columns().astype(float)) ** s * l1 * l1).sum()))


def ysb_norm(u, p):
    """Energy term plus the modulation-weighted L^2 term with exponent s/2 + b."""
    return _y_apply(np.abs(u.data), *_Factors(u)(_s_factors, p.s, p.b),
                    u.grid.weights_on(*u.stored))


def zsb_norm(u, p):
    """X-norm below the modulation split plus Y-norm above it."""
    return norms_over_s(u, p.b, [p.s], "Z")[0]


def norms_over_s(u, b, s_values, mode):
    """The X^{s,b} (mode 'X') or Z^{s,b} (mode 'Z') norm of u for each s.

    Every s is normed on u's stored block by the float operations of a one-s
    norm.  What does not depend on s is formed once: for X the column
    integrals, for Z the lo factors and the data's split; each s adds its
    ``_s_factors`` alone.
    """
    if mode == "X":
        nsq = u.norm_sq_columns().astype(float)
        cols = _x_columns(u, b)
        return [float(np.sqrt(((1.0 + nsq) ** s * cols).sum())) for s in s_values]
    if mode == "Z":
        w = u.grid.weights_on(*u.stored)
        factors = _Factors(u)
        hi, x_cols = _z_split(u.data, *factors(_lo_factors, b), w)
        return [_z_sum(hi, x_cols, *factors(_s_factors, s, b), w) for s in s_values]
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
    slices = _tau_integral(u.on_window().data, _time_kernel(u.grid, tuple(times)))
    w = (1.0 + u.norm_sq_columns().astype(float)) ** s
    vals = np.sqrt((w[:, None] * np.abs(slices) ** 2).sum(axis=0))
    return float(vals.max())


def l4_spacetime_norm(grid, fields, t_window):
    """Physical-space L^4 norm over T^d x window of the sum of the ``fields``
    on ``grid``, synthesized on twice the box side one field at a time: a
    field given as blocks of its columns is never whole."""
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("empty time window")
    count = max(3, int(np.ceil((t1 - t0) * _L4_TIMES_PER_UNIT)) + 1)
    times = np.linspace(t0, t1, count)
    tw = np.full(count, (t1 - t0) / (count - 1))
    tw[[0, -1]] *= 0.5
    P = _next_fast_len(2 * grid.box_side)
    spectral = np.zeros((P,) * grid.dimension + (count,), dtype=np.complex128)
    for u in fields:
        grid.assert_compatible(u.grid)
        spectral[tuple(u.index.T % P)] += time_slices(u, times)
        del u  # released before the iterable builds the next field
    phys = _ifftn(spectral, grid.dimension) * P**grid.dimension
    cell = (2.0 * np.pi / P) ** grid.dimension
    integrand = (np.abs(phys) ** 4).reshape(-1, count)
    return float((integrand.sum(axis=0) * cell * tw).sum() ** 0.25)


def dyadic_norm_profile(u, p):
    """Per dyadic block N, the Z^{s,b} norm of the block projection."""
    return [(blk.N, zsb_norm(project_dyadic(u, blk), p)) for blk in dyadic_blocks(u.grid)]


def apply_modulation_weight(u, power):
    """Multiply u's block by <tau + |n|^2>^power (the Duhamel weight); keeps the block."""
    out = u.data * _bracket_sq(u.mod_array()) ** (power / 2.0)
    return SpaceTimeField(u.grid, u.index.copy(), out, u.lo)
