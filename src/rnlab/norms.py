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
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grid as grid_module
from .grid import (
    SpaceTimeField,
    _Factors,
    _ifftn,
    _next_fast_len,
    _row_blocks,
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


# -- apply: the data's part of each norm ----------------------------------------


def _tau_integral(a, weights):
    """The tau quadrature of each row of ``a`` (K, L) against ``weights`` (L, ...),
    by one unthreaded einsum, whose bits do not follow the BLAS thread count."""
    return np.einsum("kl,l...->k...", a, weights)


def _x_apply(data, x_weight, weights):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau from ``_x_weight``."""
    return _tau_integral(np.abs(data) ** 2 * x_weight, weights)


def _y_sum(l1, y_cols, col_weight):
    """Y-norm from the per column Int |u| dtau and Int <tau+|n|^2>^{s+2b} |u|^2
    dtau: the energy term plus the modulation-weighted L^2 term."""
    energy = float(np.sqrt((col_weight * l1 * l1).sum()))
    return energy + float(np.sqrt(y_cols.sum()))


def _z_apply(data, lo_factors, s_factors, s_values, weights, minus=None):
    """Z^{s,b}-norm of ``data`` (K, L), or of ``data - minus``, for each of
    ``s_values``, from its ``_lo_factors`` and quadrature weights;
    ``s_factors(s)`` gives s's ``_s_factors``, fetched as it is used, with
    the weight as a function of a block's rows.

    The rows go in the blocks of ``grid._row_blocks``, as many as
    _BLOCK_BYTES holds of the difference and the float temporaries, so
    neither is ever whole.  Each block is split once, into |u| on its hi
    entries and the lo integrals, and every s is normed on that split.  No
    block is a lone row, so each row's integrals are the whole array's, and
    each sum runs once over all K rows: so are the norms, bit for bit.
    """
    lo, x_weight = lo_factors
    K, L = data.shape
    x_cols, l1, y_cols = np.empty(K), np.empty(K), np.empty((len(s_values), K))
    blocks = _row_blocks(K, 40 * max(L, 1))  # 16 bytes of difference, 24 of floats
    norms = []
    for rows in blocks:
        hi = np.abs(data[rows] if minus is None else data[rows] - minus[rows])
        a, b = np.searchsorted(lo[0], (rows.start, rows.stop))  # the lo entries are in row order
        block_lo = (lo[0][a:b] - rows.start, lo[1][a:b])
        x_integrand = np.zeros_like(hi)
        x_integrand[block_lo] = hi[block_lo] ** 2 * x_weight[a:b]
        x_cols[rows] = _tau_integral(x_integrand, weights)
        del x_integrand
        hi[block_lo] = 0.0
        l1[rows] = _tau_integral(hi, weights)
        hi **= 2  # |u|^2 on the hi entries, for every s
        for y, s in zip(y_cols, s_values):
            y_weight, col_weight = s_factors(s)
            y[rows] = _tau_integral(hi * y_weight(rows), weights)
            if rows is blocks[-1]:  # every row's integrals are in
                norms.append(float(np.sqrt((col_weight * x_cols).sum()))
                             + _y_sum(l1, y, col_weight))
    return norms


# -- the norms --------------------------------------------------------------------


def xsb_norm(u, p):
    """|| <n>^s <tau+|n|^2>^b u_hat ||_{l^2 L^2}."""
    return norms_over_s(u, p.b, [p.s], "X")[0]


def _x_columns(u, b):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau on u's stored block.

    A block too large for the weight cache goes in the row blocks of
    ``grid._row_blocks``, 16 bytes an entry, none a lone row: each block
    gathers its weight (``_weight_rows``) and multiplies |u|^2 into it in
    place, so its two float temporaries stay within _BLOCK_BYTES, and each
    column keeps its bits.
    """
    w = u.grid.weights_on(*u.stored)
    if u.data.size <= grid_module._CACHED_ENTRIES:
        return _x_apply(u.data, _Factors(u)(_x_weight, b), w)
    x_weight = _weight_rows(u, lambda sigma: _x_weight(sigma, None, b))
    cols = np.empty(u.n_columns)
    for rows in _row_blocks(len(cols), 16 * u.data.shape[1]):
        x = x_weight(rows)
        hi = np.abs(u.data[rows])
        hi **= 2
        x *= hi  # the bits of _x_apply's |u|^2 * weight
        cols[rows] = _tau_integral(x, w)
    return cols


def _weight_rows(u, weight):
    """``rows -> weight(tau + |n|^2)`` on u's stored block at a slice of
    its rows, a new (rows, width) array.

    Where 1/tau_step is an integer, the modulations of u's columns lie on
    the lattice i tau_step: ``weight`` is evaluated once on their span and
    each call gathers its rows from it, the bits of ``weight`` on
    ``mod_array`` at a power-of-two tau_step, where both forms of the
    modulation are exact.  Where it is not, or the span is longer than
    _BLOCK_BYTES holds of floats, each call evaluates ``weight`` on its
    rows' modulations.
    """
    grid, (lo, hi) = u.grid, u.stored
    nsq = u.norm_sq_columns()
    try:
        per_unit = grid_module.steps_per_unit(grid.tau_step)
    except ValueError:
        per_unit = 0
    if per_unit and len(nsq):
        first = int(nsq.min())
        span = (int(nsq.max()) - first) * per_unit + hi - lo  # Python ints: no overflow
        if 8 * span <= grid_module._BLOCK_BYTES:
            lattice = weight((np.arange(span) + (first * per_unit + lo - grid.half_index))
                             * grid.tau_step)
            offsets = (nsq - first) * per_unit
            return lambda rows: sliding_window_view(lattice, hi - lo)[offsets[rows]]
    nodes = grid.nodes_on(lo, hi)[None, :]
    return lambda rows: weight(nodes + nsq[rows, None].astype(float))


def energy_l2l1(u, s):
    """|| <n>^s u_hat ||_{l^2_n L^1_tau}, the H^s-energy functional."""
    l1 = _tau_integral(np.abs(u.data), u.grid.weights_on(*u.stored))
    return float(np.sqrt(((1.0 + u.norm_sq_columns().astype(float)) ** s * l1 * l1).sum()))


def ysb_norm(u, p):
    """Energy term plus the modulation-weighted L^2 term with exponent s/2 + b."""
    y_weight, col_weight = _Factors(u)(_s_factors, p.s, p.b)
    hi, w = np.abs(u.data), u.grid.weights_on(*u.stored)
    return _y_sum(_tau_integral(hi, w), _tau_integral(hi ** 2 * y_weight, w), col_weight)


def zsb_norm(u, p):
    """X-norm below the modulation split plus Y-norm above it."""
    return norms_over_s(u, p.b, [p.s], "Z")[0]


def norms_over_s(u, b, s_values, mode):
    """The X^{s,b} (mode 'X') or Z^{s,b} (mode 'Z') norm of u for each s.

    Every s is normed on u's stored block by the float operations of a one-s
    norm.  What does not depend on s is formed once: for X the column
    integrals, for Z the lo factors and each row block's split; each s adds
    its ``_s_factors`` alone, fetched as it is used (``_z_apply``).
    """
    if mode == "X":
        nsq = u.norm_sq_columns().astype(float)
        cols = _x_columns(u, b)
        return [float(np.sqrt(((1.0 + nsq) ** s * cols).sum())) for s in s_values]
    if mode == "Z":
        factors = _Factors(u)

        # the last s's factors stay for its next row block; uncached, each block would rebuild them
        @lru_cache(maxsize=1)
        def s_factors(s):
            y_weight, col_weight = factors(_s_factors, s, b)
            return y_weight.__getitem__, col_weight

        return _z_apply(u.data, factors(_lo_factors, b), s_factors, s_values,
                        u.grid.weights_on(*u.stored))
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
