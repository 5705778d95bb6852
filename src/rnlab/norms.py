"""Restriction norms on space-time Fourier data.

Every norm here is a weighted trapezoid sum applied directly to the stored
coefficients u_hat(n, tau); nothing is transformed first.  The three core
norms:

  X^{s,b}:  || <n>^s <tau+|n|^2>^b u_hat ||_{l^2_n L^2_tau}
  Y^{s,b}:  || <n>^s u_hat ||_{l^2_n L^1_tau}
              + || <tau+|n|^2>^{s/2+b} u_hat ||_{l^2_n L^2_tau}
  Z^{s,b}:  X-norm of the low-modulation part plus Y-norm of the
            high-modulation part, split at |tau+|n|^2| = MOD_THRESHOLD * |n|^2.

Each weight is a function of sigma = tau + |n|^2 alone, taken a block of
rows at a time (``grid._Factors.weight``): built whole on ``mod_array`` and
cached for a stored block of at most ``grid._CACHED_ENTRIES`` entries, else
gathered from the sigma-lattice (``grid._weight_rows``), as the Picard plan
does.  The Z-norm's lo entries are found a row block at a time
(``_lo_rows``), and cached for a small block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _x_weight(sigma, b):
    """<sigma>^{2b}."""
    return _bracket_sq(sigma) ** b


def _y_weight(sigma, s, b):
    """<sigma>^{s+2b}: the Y-norm's weight, and the Z-norm's for each s."""
    return _bracket_sq(sigma) ** (s / 2.0 + b)


def _lo_factors(mod, nsq, b):
    """The Z-norm's s-independent factors: the lo entries, as index arrays, and
    <sigma>^{2b} on them."""
    lo = np.nonzero(low_modulation_mask(mod, nsq))
    return lo, _bracket_sq(mod)[lo] ** b


def _lo_rows(grid, fnsq, stored, b):
    """``_lo_factors`` on the window samples ``stored`` of the columns with
    the float |n|^2 ``fnsq``, a row block (40 bytes an entry) at a time, by
    mod_array's float operations: so is the split at any tau_step."""
    nodes = grid.nodes_on(*stored)[None, :]
    parts = []
    for rows in _row_blocks(len(fnsq), 40 * max(stored[1] - stored[0], 1)):
        (i, j), x = _lo_factors(nodes + fnsq[rows, None], fnsq[rows], b)
        parts.append((i + rows.start, j, x))
    i, j, x = (np.concatenate(a) for a in zip(*parts))
    return (i, j), x


# -- apply: the data's part of each norm ----------------------------------------


def _tau_integral(a, weights):
    """The tau quadrature of each row of ``a`` (K, L) against ``weights`` (L, ...),
    by one unthreaded einsum, whose bits do not follow the BLAS thread count."""
    return np.einsum("kl,l...->k...", a, weights)


def _weighted_columns(u, weight, l1=None):
    """Per column Int weight |u|^2 dtau on u's stored block, ``weight`` a
    function of a block's rows, and into ``l1``, if given, Int |u| dtau; in
    the blocks of ``grid._row_blocks`` (none a lone row, so each column keeps
    its bits) at 32 bytes an entry, twice its floats, so a pass adds at most
    half a block of the field's bytes to it."""
    w = u.grid.weights_on(*u.stored)
    cols = np.empty(u.n_columns)
    for rows in _row_blocks(len(cols), 32 * max(u.data.shape[1], 1)):
        x = np.abs(u.data[rows])
        if l1 is not None:
            l1[rows] = _tau_integral(x, w)
        x **= 2
        x *= weight(rows)
        cols[rows] = _tau_integral(x, w)
    return cols


def _x_columns(u, b):
    """Per column Int <tau+|n|^2>^{2b} |u|^2 dtau on u's stored block."""
    return _weighted_columns(u, _Factors(u).weight(_x_weight, b))


def _y_sum(l1, y_cols, col_weight):
    """Y-norm from the per column Int |u| dtau and Int <tau+|n|^2>^{s+2b} |u|^2
    dtau: the energy term plus the modulation-weighted L^2 term."""
    energy = float(np.sqrt((col_weight * l1 * l1).sum()))
    return energy + float(np.sqrt(y_cols.sum()))


def _z_apply(data, fnsq, lo_factors, y_weights, s_values, weights, minus=None):
    """Z^{s,b}-norm of ``data`` (K, L), or of ``data - minus``, for each of
    ``s_values``: ``_z_sums`` in the blocks of ``grid._row_blocks`` at 40
    bytes an entry (a difference and floats), so no temporary is whole."""
    add, norms = _z_sums(fnsq, lo_factors, y_weights, s_values, weights)
    for rows in _row_blocks(len(data), 40 * max(data.shape[1], 1)):
        add(rows, data[rows], None if minus is None else minus[rows])
    return norms()


def _z_sums(fnsq, lo_factors, y_weights, s_values, weights):
    """(add, norms): ``add(rows, data, minus=None)`` takes the Z^{s,b}-norms'
    integrals of the rows ``rows`` (a slice), ``data`` or ``data - minus``
    there, and ``norms()`` gives one norm per s once every row is in; from
    the rows' float |n|^2 ``fnsq``, their ``_lo_factors`` and s's
    <sigma>^{s+2b} ``y_weights(s)``, a function of a block's rows.  Each
    block is split once, into |u| on its hi entries and the lo integrals,
    and every s is normed on that split.  With no lone-row block, each
    row's integrals, and so the norms, are the same bits at any partition.
    """
    (lo_i, lo_j), x_weight = lo_factors
    K = len(fnsq)
    x_cols, l1, y_cols = np.empty(K), np.empty(K), np.empty((len(s_values), K))

    def add(rows, data, minus=None):
        hi = np.abs(data if minus is None else data - minus)
        a, b = np.searchsorted(lo_i, (rows.start, rows.stop))  # the lo entries are in row order
        block_lo = (lo_i[a:b] - rows.start, lo_j[a:b])
        x_integrand = np.zeros_like(hi)
        x_integrand[block_lo] = hi[block_lo] ** 2 * x_weight[a:b]
        x_cols[rows] = _tau_integral(x_integrand, weights)
        del x_integrand
        hi[block_lo] = 0.0
        l1[rows] = _tau_integral(hi, weights)
        hi **= 2  # |u|^2 on the hi entries, for every s
        for y, s in zip(y_cols, s_values):
            y[rows] = _tau_integral(hi * y_weights(s)(rows), weights)

    def norms():
        col_weights = [(1.0 + fnsq) ** s for s in s_values]
        return [float(np.sqrt((col_weight * x_cols).sum())) + _y_sum(l1, y, col_weight)
                for y, col_weight in zip(y_cols, col_weights)]

    return add, norms


# -- the norms --------------------------------------------------------------------


def xsb_norm(u, p):
    """|| <n>^s <tau+|n|^2>^b u_hat ||_{l^2 L^2}."""
    return norms_over_s(u, p.b, [p.s], "X")[0]


def energy_l2l1(u, s):
    """|| <n>^s u_hat ||_{l^2_n L^1_tau}, the H^s-energy functional, its
    column integrals in the blocks of ``grid._row_blocks`` (|u|, 8 bytes an
    entry)."""
    w = u.grid.weights_on(*u.stored)
    l1 = np.empty(u.n_columns)
    for rows in _row_blocks(len(l1), 8 * max(u.data.shape[1], 1)):
        l1[rows] = _tau_integral(np.abs(u.data[rows]), w)
    return float(np.sqrt(((1.0 + u.norm_sq_columns().astype(float)) ** s * l1 * l1).sum()))


def ysb_norm(u, p):
    """Energy term plus the modulation-weighted L^2 term with exponent s/2 + b."""
    col_weight = (1.0 + u.norm_sq_columns().astype(float)) ** p.s
    l1 = np.empty(u.n_columns)
    y_cols = _weighted_columns(u, _Factors(u).weight(_y_weight, p.s, p.b), l1)
    return _y_sum(l1, y_cols, col_weight)


def zsb_norm(u, p):
    """X-norm below the modulation split plus Y-norm above it."""
    return norms_over_s(u, p.b, [p.s], "Z")[0]


def norms_over_s(u, b, s_values, mode):
    """The X^{s,b} (mode 'X') or Z^{s,b} (mode 'Z') norm of u for each s.

    Every s is normed on u's stored block by the float operations of a one-s
    norm.  What does not depend on s is formed once: for X the column
    integrals, for Z the lo factors and each row block's split; each s adds
    its <sigma>^{s+2b} alone, fetched as it is used (``_z_apply``).
    """
    fnsq = u.norm_sq_columns().astype(float)
    if mode == "X":
        cols = _x_columns(u, b)
        return [float(np.sqrt(((1.0 + fnsq) ** s * cols).sum())) for s in s_values]
    if mode == "Z":
        factors = _Factors(u)

        # the last s's weight stays for its next row block; a gathered one
        # would be evaluated on the lattice again
        @lru_cache(maxsize=1)
        def y_weights(s):
            return factors.weight(_y_weight, s, b)

        lo = factors.get(_lo_rows, (b,), lambda: _lo_rows(u.grid, fnsq, u.stored, b))
        return _z_apply(u.data, fnsq, lo, y_weights, s_values, u.grid.weights_on(*u.stored))
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
    on ``grid``, synthesized on twice the box side (``_l4_integrals``).

    Each field leaves only its time slices and its columns, and is released
    before the next is built: a field given as blocks of its columns is
    never whole.
    """
    times, tw = _l4_times(t_window)
    slices = []
    for u in fields:
        grid.assert_compatible(u.grid)
        slices.append((u.index, time_slices(u, times)))
        del u  # released before the iterable builds the next field
    return float((_l4_integrals(grid, slices, len(times)) * tw).sum() ** 0.25)


def _l4_times(t_window):
    """The L^4 norm's t-samples on the window and their trapezoid weights."""
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("empty time window")
    count = max(3, int(np.ceil((t1 - t0) * _L4_TIMES_PER_UNIT)) + 1)
    tw = np.full(count, (t1 - t0) / (count - 1))
    tw[[0, -1]] *= 0.5
    return np.linspace(t0, t1, count), tw


def _l4_integrals(grid, slices, count):
    """Per t-sample Int |u(x, t)|^4 dx, shape (count,), of the sum of the
    time slices ``slices``: pairs of columns (K, d) and their values (K, count).

    The physical field is synthesized on twice the box side in the t-chunks
    of ``grid._row_blocks`` (24 bytes a sample: the spectral chunk and
    |.|^4), the slices added into each chunk in the given order.  Every
    t-sample's transforms and spatial sum are those of the whole (P^d, count)
    array, and no chunk is a lone sample: so are the integrals, bit for bit.
    """
    P = _next_fast_len(2 * grid.box_side)
    sums = np.empty(count)
    for t in _row_blocks(count, 24 * P**grid.dimension):
        chunk = np.zeros((P,) * grid.dimension + (t.stop - t.start,), dtype=np.complex128)
        for ns, values in slices:
            chunk[tuple(ns.T % P)] += values[:, t]
        _ifftn(chunk, grid.dimension)
        chunk *= P**grid.dimension
        chunk = np.abs(chunk)  # the complex chunk is released
        chunk **= 4
        sums[t] = chunk.reshape(-1, t.stop - t.start).sum(axis=0)
    return sums * (2.0 * np.pi / P) ** grid.dimension


def dyadic_norm_profile(u, p):
    """Per dyadic block N, the Z^{s,b} norm of the block projection."""
    return [(blk.N, zsb_norm(project_dyadic(u, blk), p)) for blk in dyadic_blocks(u.grid)]


def apply_modulation_weight(u, power):
    """Multiply u's block by <tau + |n|^2>^power (the Duhamel weight); keeps the block."""
    out = u.data * _bracket_sq(u.mod_array()) ** (power / 2.0)
    return SpaceTimeField(u.grid, u.index.copy(), out, u.lo)
