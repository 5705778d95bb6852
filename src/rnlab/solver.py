"""Picard fixed-point scheme for i u_t + Laplacian u = conj(u)^2.

The Duhamel map is realized entirely on space-time Fourier data.  With
F = eta_{2T} conj(u) * eta_{2T} conj(v) (data: one dealiased product of the
reflected factors' (x, t) samples times eta_{2T}) and sigma = tau + |n|^2,
the three nonlinear pieces are

  N1: psi(sigma)-localized part of the Duhamel multiplier, realized through
      the Taylor series (e^{it sigma}-1)/(i sigma) = sum_k (it)^k sigma^{k-1}/k!
      whose k-th term is a t^k eta(t) free evolution, i.e. a column profile
      F(t^k eta)(sigma) times the sigma^{k-1}-moment of F, read from a real
      sigma-lattice of every term, one real FFT a term, by one dgemm a column;
  N2: the stationary-phase remainder collapsed in tau and freely evolved:
      i * F(eta)(sigma) * Int F (1-psi)/(i sigma) dtau;
  N3: the pointwise multiplier -i (1-psi(sigma))/(i sigma) applied to F.

With the real r = (1-psi(sigma))/sigma, N2 = F(eta)(sigma) Int F r dtau and
N3 = -r F.  Everything that depends only on the grid, the cutoffs and the
norm parameters lives in a PicardPlan built once per solve.  The fixed-point
iterate is Gamma[u] = eta(t) e^{it Lap} u0 + N1 + N2 + N3 applied with v = u,
where the linear solution, F(eta)(sigma) u0(n), and N2 enter N1's series as
its k = 0 term.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import cutoffs
from .cutoffs import SUPPORT, standard_bump
from .grid import (FrequencyGrid, SpaceTimeField, _block_rows, _padded_product,
                   _product_blocks, _row_blocks, _weight_rows, _workspace, steps_per_unit)
from .norms import (NormParams, _lo_rows, _tau_integral, _y_weight, _z_apply, _z_sums,
                    spatial_hs_norm)

_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 60
_LATTICE_TERMS = 29  # the terms N1's tolerance reaches; _add_series grows the lattice past it
_STEP_BYTES = 40  # bytes an entry beside a step's rows: Z-norm or N1 temporaries


@dataclass(frozen=True)
class SolverParams:
    """Picard iteration parameters; the Z-norm's b is 2/3, pinned by the bilinear estimate."""

    s: float
    T: float
    max_iterations: int = 12
    contraction_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.s > -2.0 / 3.0:
            raise ValueError("regularity must satisfy s > -2/3")
        _check_scale(self.T)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def norm_params(self):
        return NormParams(s=self.s, b=2.0 / 3.0)


def _check_scale(T):
    if not 0.0 < T <= 0.25:
        raise ValueError("localization scale must satisfy 0 < T <= 1/4")


@dataclass
class IterationTrace:
    """The last iterate, every iterate's Z-norm, successive differences, ratios.

    ``final`` is the one iterate ``picard_solve`` holds, overwritten by
    each step; the solve streams every iterate to its ``on_iterate``
    callback, so its memory does not grow with the iterations.
    """

    final: SpaceTimeField | None = None
    z_norms: list = field(default_factory=list)
    successive_diffs: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterates(self):
        """``[final]``, for the benchmark's reader only, which ROADMAP item 1 drops."""
        return [self.final]

    def contraction_ratios(self, floor=1e-14):
        out = []
        for a, b in zip(self.successive_diffs, self.successive_diffs[1:]):
            if a > floor:
                out.append(b / a)
        return out

    def to_json_text(self):
        obj = {
            "z_norms": self.z_norms,
            "successive_diffs": self.successive_diffs,
            "contraction_ratios": self.contraction_ratios(),
            "converged": self.converged,
            "iterations": len(self.z_norms),
        }
        return json.dumps(obj, indent=2) + "\n"


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the contraction ball; carries the trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def nonlinear_fourier_data(u, v, T):
    """Data of (eta_{2T} conj(u)) * (eta_{2T} conj(v)) as one dealiased (x, t) product.

    The factors go through ``grid._padded_product``, which reads their
    conjugate reflections a block of rows at a time, weighted by
    eta(t / 2T), which vanishes off |t| < 4T, so only those t-nodes pass
    the spatial transforms.  The cut-off factor is not truncated to the
    tau-window: its transform tail aliases at the workspace period.  When
    ``v is u`` the one reflected factor is transformed once and squared.
    The scale must satisfy 0 < T <= 1/4, as in ``SolverParams``.
    """
    _check_scale(T)
    u.grid.assert_compatible(v.grid)
    if not (u.data.any() and v.data.any()):
        return SpaceTimeField.zero(u.grid)
    return _padded_product(u, None if v is u else v, _eta_weight(T), reflect=True)


def _eta_weight(T):
    """eta(t / 2T), the product's weight on its t-nodes."""
    return lambda t: standard_bump(t / (2.0 * T))


def _psi_band(grid, nsq):
    """(tau-indices, sigma, psi(sigma)) on each column's supp-psi band, shape (K, B).

    psi vanishes for |sigma| >= SUPPORT, so column n needs only the samples
    from tau = -|n|^2 - SUPPORT upward, located in closed form; off the band
    psi(sigma) is exactly zero.  The band holds one sample more than the
    2 SUPPORT / tau_step + 1 of an exact fit, so a start that rounds one
    sample low still covers it.
    """
    width = min(int(math.floor(2.0 * SUPPORT / grid.tau_step)) + 2, grid.n_tau)
    start = np.floor((-SUPPORT - nsq) / grid.tau_step).astype(np.int64) + grid.half_index
    cols = np.clip(start, 0, grid.n_tau - width)[:, None] + np.arange(width)
    # the same float operations as mod_array, so sigma matches it bitwise
    sigma = grid.tau_nodes[cols] + nsq[:, None].astype(float)
    return cols, sigma, standard_bump(sigma)


def _r_weight(sigma):
    """The real high-modulation multiplier r = (1 - psi(sigma)) / sigma, zero
    where psi = 1, so (1 - psi) / (i sigma) = -i r."""
    psi = standard_bump(sigma)
    r = np.zeros_like(sigma)
    keep = psi < 1.0
    # (1 - psi) * (1 / sigma): the rounding of the complex (1 - psi) / (i sigma)
    r[keep] = (1.0 - psi[keep]) * (1.0 / sigma[keep])
    return r


@dataclass(frozen=True)
class PicardPlan:
    """What no Picard step changes, built once per solve; no array is box-sized.

    ``cols``, ``sigma``, ``psi``: each column's supp-psi band (``_psi_band``).
    ``offsets``: each column's index |n|^2 / tau_step of tau_0 in N1's
    series lattice (``_add_series``).  ``r`` (``_r_weight``)
    and ``y_weight``, the Z-norm's <sigma>^{s+2b}: functions of box rows,
    gathered from the sigma-lattice (``grid._weight_rows``).  ``lo_factors``:
    the Z-norm's lo entries and <sigma>^{2b} on them (``norms._lo_rows``).
    Every array is read-only.  A field's columns take the rows at their keys.
    """

    grid: FrequencyGrid
    cols: np.ndarray
    sigma: np.ndarray
    psi: np.ndarray
    offsets: np.ndarray
    r: object
    y_weight: object
    lo_factors: tuple

    @classmethod
    def build(cls, grid, p):
        """The plan of ``grid`` for the Z-norm parameters ``p``; nothing depends on T."""
        nsq = FrequencyGrid.norm_sq(grid.box_index)
        cols, sigma, psi = _psi_band(grid, nsq)
        offsets = cutoffs.profile_offsets(grid, nsq, grid.half_index)
        window = (0, grid.n_tau)
        lo_factors = _lo_rows(grid, nsq.astype(float), window, p.b)
        for a in (cols, sigma, psi, offsets, *lo_factors[0], lo_factors[1]):
            a.setflags(write=False)
        return cls(grid, cols, sigma, psi, offsets, _weight_rows(grid, nsq, window, _r_weight),
                   _weight_rows(grid, nsq, window, lambda sigma: _y_weight(sigma, p.s, p.b)),
                   lo_factors)


# -i^k / k!, built in Python: a numpy cumprod at import costs every process 0.17 MB of RSS
_COEFS = np.array([-c for c in accumulate((1j / k for k in range(1, _SERIES_MAX_TERMS + 1)),
                                          lambda a, b: a * b)])


def _n1_coefficients(fhat, plan, rows):
    """N1's Taylor coefficients a_k, k = 1, 2, ..., of the product rows
    ``fhat`` at the plan's rows ``rows``, shape (R, terms).

    a_k = -(i^k / k!) g_k with the moment g_k(n) = Int F psi sigma^{k-1}
    dtau over the supp-psi band of each column, taken for all
    _SERIES_MAX_TERMS terms in one pass.  Each row stops on its own bound
    |a_k| m_k (``_series_lattice``), at the second term in a row below 1e-12
    of its largest so far, and is zero after, so no row depends on another.
    """
    grid, bounds, terms = plan.grid, _series_lattice(plan.grid)[0], _SERIES_MAX_TERMS
    cols, sigma = plan.cols[rows], plan.sigma[rows]
    weighted = np.take_along_axis(fhat, cols, axis=1) * plan.psi[rows] * grid.tau_weights[cols]
    powers = np.empty((len(sigma), terms, sigma.shape[1]))
    powers[:, 0] = 1.0
    powers[:, 1:] = sigma[:, None]
    np.cumprod(powers, axis=1, out=powers)  # sigma^{k-1}, each a product of the last
    coefs = _COEFS * (weighted[:, None] * powers).sum(axis=2)
    bound = np.abs(coefs) * bounds[1:]
    below = bound <= _SERIES_TOL * np.maximum(np.maximum.accumulate(bound, axis=1), 1e-300)
    pairs = below[:, 1:] & below[:, :-1]
    stop = np.where(pairs.any(axis=1), pairs.argmax(axis=1) + 2, terms)
    coefs = coefs[:, :stop.max()]
    coefs[np.arange(coefs.shape[1]) >= stop[:, None]] = 0.0
    return coefs


@lru_cache(maxsize=1)  # the last grid's, for every step
def _series_lattice(grid):
    """[m_k, L] of ``_lattice`` at _LATTICE_TERMS terms; ``_add_series`` grows L."""
    return list(_lattice(grid, _LATTICE_TERMS))


def _lattice(grid, terms):
    """(m_k for k = 0 .. _SERIES_MAX_TERMS, and the read-only real L of shape
    (terms, d n_max^2 / h + M) with F(t^k eta) = i^(k mod 2) L[k] at the
    sigma-index q = j - half of column j).

    On the product's t-nodes t_l = 2 pi l / (h P), |t_l| < 2, the real FFT
    of T[k, l] = t_l^k eta(t_l) / (h P) is the rectangle rule for
    F(t^k eta)(q h), aliased at the period h P as the product's eta-tail
    is; m_k = Sum_l |T[k, l]| bounds it, and is its maximum at even k.
    L[k] is its real part at even k, its imaginary part at odd k, read at
    |q| for q mod P in [-P/2, P/2), where an odd row changes sign.
    """
    shape, live, _, eta = _workspace(grid, standard_bump)
    P = shape[-1]
    table = np.empty((_SERIES_MAX_TERMS + 1, len(live)))
    table[0] = eta / (grid.tau_step * P)
    table[1:] = 2.0 * math.pi * np.where(live > P // 2, live - P, live) / (grid.tau_step * P)
    np.cumprod(table, axis=0, out=table)
    bounds = np.abs(table).sum(axis=1)
    width = grid.dimension * grid.n_max**2 * steps_per_unit(grid.tau_step) + grid.n_tau
    q = (np.arange(width) - grid.half_index + P // 2) % P - P // 2
    samples, lattice = np.zeros(P), np.empty((terms, width))
    for k, row in enumerate(lattice):
        samples[live] = table[k]
        spectrum = np.fft.rfft(samples)
        np.take(spectrum.imag if k % 2 else spectrum.real, np.abs(q), out=row)
        np.negative(row, out=row, where=(q < 0) & (k % 2 == 1))
    lattice.setflags(write=False)
    return bounds, lattice


def _rows(fhat):
    """fhat's rows in a plan's box arrays; on the whole box a slice, so they are views."""
    if fhat.n_columns == fhat.grid.box_count:
        return slice(None)
    return fhat.grid.flat_keys(fhat.index)


def _add_series(out, coefs, plan, rows):
    """out[i] += Sum_k coefs[i, k] F(t^k eta)(tau + |n|^2) at the plan's
    rows ``rows``, k from 0: one dgemm a row, of the real and imaginary
    parts of coefs[i, k] i^(k mod 2) up to the row's last non-zero term,
    against the lattice of ``_series_lattice`` from the row's
    ``plan.offsets`` on (grown to every term when a row needs more).
    Every row alone, since dgemm rounds a row by its place in a larger
    product and by the terms it sums."""
    held = _series_lattice(plan.grid)
    nonzero = coefs != 0
    counts = np.where(nonzero.any(axis=1), coefs.shape[1] - nonzero[:, ::-1].argmax(axis=1), 0)
    if counts.max(initial=0) > len(held[1]):
        held[1] = _lattice(plan.grid, _SERIES_MAX_TERMS + 1)[1]
    parts = np.stack([coefs.real, coefs.imag], axis=2)
    parts[:, 1::2] = parts[:, 1::2, ::-1] * (-1.0, 1.0)  # i c = -Im c + i Re c
    M, lattice = out.shape[1], held[1]
    pairs = out.view(np.float64).reshape(len(out), M, 2)  # each entry's real and imaginary part
    for row, start, terms, part in zip(pairs, plan.offsets[rows], counts, parts):
        row += lattice[:terms, start:start + M].T @ part[:terms]


def duhamel_n1(fhat, plan):
    """psi-localized Duhamel piece via the convergent Taylor construction.

    Term k is a_k(n) F(t^k eta)(sigma) (``_n1_coefficients``), summed by
    ``_add_series`` with a zero k = 0 term.
    """
    return _series_piece(fhat, plan, lambda data, rows: np.column_stack(
        [np.zeros(len(data)), _n1_coefficients(data, plan, rows)]))


def duhamel_n2(fhat, plan):
    """Collapsed high-modulation piece i F(eta)(sigma) Int F (1-psi)/(i sigma) dtau.

    Written F(eta)(sigma) Int F r dtau, the k = 0 term of N1's series
    (``_add_series``).
    """
    return _series_piece(fhat, plan, lambda data, rows: _tau_integral(
        data * plan.r(rows), plan.grid.tau_weights)[:, None])


def _series_piece(fhat, plan, coefs):
    """The series of ``coefs(data, rows)`` (``_add_series``) as a field on fhat's columns."""
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    out = np.zeros(fhat.data.shape, dtype=np.complex128)
    _add_series(out, coefs(fhat.data, rows), plan, rows)
    return SpaceTimeField(fhat.grid, fhat.index.copy(), out)


def duhamel_n3(fhat, plan):
    """Stationary high-modulation piece: -r F, the multiplier -i (1-psi)/(i sigma)."""
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    return SpaceTimeField(fhat.grid, fhat.index.copy(), -fhat.data * plan.r(_rows(fhat)))


def duhamel_rhs(fhat, plan):
    """N1 + N2 + N3 of the product data ``fhat`` in one new array, formed in
    the row blocks of the Picard step (``_duhamel_rows``, with no linear
    solution); ``fhat`` is left as it is."""
    out, keys = fhat.copy(), _rows(fhat)
    if out.n_columns:
        for part in _row_blocks(out.n_columns, _step_row_bytes(fhat.grid)):
            _duhamel_rows(out.data[part], plan, part if isinstance(keys, slice) else keys[part], 0)
    return out


def _duhamel_rows(block, plan, rows, linear):
    """N1 + N2 + N3 of the product rows ``block`` at the plan's rows
    ``rows``, plus the linear solution of the coefficients ``linear`` there
    (0 for none), formed in place, each row alone.

    N2 and the linear solution are the k = 0 term of N1's series, with
    coefficient Int F r dtau + linear.  N1's coefficients are taken from F
    first; then the block is scaled to F r, Int F r dtau is taken from it,
    it is negated in place to N3 = -r F, and the one series adds the rest
    into it: (-r F) + series rounds as series - r F does.
    """
    coefs = _n1_coefficients(block, plan, rows)
    np.multiply(block, plan.r(rows), out=block)
    high = _tau_integral(block, plan.grid.tau_weights) + linear
    np.negative(block, out=block)
    _add_series(block, np.column_stack([high, coefs]), plan, rows)


# -- Picard iteration --------------------------------------------------------


def rough_initial_data(grid, s, seed):
    """Unit-H^s random data: <n>^{-s-1}-enveloped complex Gaussians, normalized.

    Returns (columns, values) over the whole box.
    """
    rng = np.random.default_rng(seed)
    ns = grid.box_index.copy()
    g = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
    vals = (1.0 + FrequencyGrid.norm_sq(ns).astype(float)) ** ((-s - 1.0) / 2.0) * g
    vals /= spatial_hs_norm(ns, vals, s)
    return ns, vals


def peak_bytes(grid, params):
    """Estimated peak bytes of ``picard_solve`` on ``grid``, without building anything.

    With K box columns and blocks of ``_step_row_bytes`` rows: one iterate
    (at any max_iterations), the plan (the psi band, and r and the Z weight
    on the sigma-lattice; its lo entries are left out, a few per column),
    N1's series lattice at _LATTICE_TERMS terms (``_series_lattice``) and
    one row's dgemm output, and the larger transient: the product's forward
    pass, one block of tau-rows at length P, the columns' samples at eta's
    t-nodes and up to three spatial workspaces there (one between axes in
    d=2), or the streamed step, one workspace and a block of rows.
    """
    K, M = grid.box_count, grid.n_tau
    shape, _, n_live, _ = _workspace(grid, _eta_weight(params.T))
    lattice = M + 2 * grid.dimension * grid.n_max**2 / grid.tau_step
    series = 8 * _LATTICE_TERMS * (M + grid.dimension * grid.n_max**2 / grid.tau_step) + 16 * M
    plan = 24 * K * (2.0 * SUPPORT / grid.tau_step + 2) + 16 * lattice + series
    rows = min(K, _block_rows(_step_row_bytes(grid)) + 1)
    forward = 16 * shape[-1] * rows + 16 * K * n_live
    step = _step_row_bytes(grid) * rows
    spatial = 16 * math.prod(shape[:-1]) * n_live
    return int(16 * K * M + plan + max(forward + 3 * spatial, step + spatial))


def picard_solve(u0, params, grid, initial=None, on_iterate=None):
    """Iterate Gamma[u] = eta e^{it Lap} u0 + N(u, u) from the linear solution.

    ``u0`` is spatial data as a (columns, values) pair or box array,
    checked before anything is built (``cutoffs._spatial_pairs``);
    ``initial``, a field on ``grid``, replaces the linear solution as the
    first iterate, and is left as it is.  Both are taken onto every box
    column, where the ``PicardPlan`` lives, the linear solution as the
    k = 0 term of N1's series (``_add_series``) with coefficient u0(n),
    a row block at a time, each normed for the ball radius as it is made
    (into a block of its own when ``initial`` is given).  The solve holds
    one iterate and the plan: each step writes the next iterate over it a
    block of rows at a time (``_picard_step``), and the trace keeps it as
    ``final``.
    ``on_iterate(k, field)``, when given, receives iterate k as soon as it
    is made, from k = 0 up to and including one that diverges: that live
    field, which the next step overwrites; a caller keeps a copy.  Raises
    DivergenceError (trace attached) when an iterate's Z-norm is not finite
    or exceeds ten times the ball radius, the Z-norm of the linear solution.
    """
    if initial is not None:
        grid.assert_compatible(initial.grid)
    coefs = _box_coefficients(grid, u0)
    plan = PicardPlan.build(grid, params.norm_params())
    # the Z-norm's arguments; the plan holds the Z weight of params.s
    z_args = (FrequencyGrid.norm_sq(grid.box_index).astype(float), plan.lo_factors,
              lambda s: plan.y_weight, [params.s], grid.tau_weights)
    trace = IterationTrace()
    add, norms = _z_sums(*z_args)
    current = SpaceTimeField.full(grid) if initial is None else None
    for part in _row_blocks(grid.box_count, _step_row_bytes(grid)):
        rows = np.zeros((part.stop - part.start, grid.n_tau), complex) if current is None \
            else current.data[part]
        _add_series(rows, coefs[part, None], plan, part)
        add(part, rows)
    del rows  # the last block, unless it is the iterate's
    z0 = norms()[0]
    radius = max(z0, 1e-12)
    if initial is not None:
        current = _on_box(initial)  # a copy: the step writes into its iterate
        z0 = _z_apply(current.data, *z_args)[0]
    emit = on_iterate or (lambda k, u: None)
    trace.final = current
    trace.z_norms.append(z0)
    emit(0, current)
    for k in range(1, params.max_iterations + 1):
        z, diff = _picard_step(current, plan, coefs, params.T, z_args)
        trace.z_norms.append(z)
        trace.successive_diffs.append(diff)
        emit(k, current)
        if not math.isfinite(z) or z > 10.0 * radius:
            raise DivergenceError(
                f"iterate Z-norm {z:.3e} exceeded 10x ball radius {radius:.3e}", trace
            )
        if diff < params.contraction_tolerance:
            trace.converged = True
            break
    return trace


def _picard_step(u, plan, coefs, T, z_args):
    """Overwrite the box field u with Gamma[u] a row block at a time, and
    return the Z-norms (``_z_sums`` of ``z_args``) of it and of Gamma[u] - u.

    The product (``grid._product_blocks``) reads u in blocks of
    ``_step_row_bytes`` rows; then each block comes back from its inverse
    tau pass, becomes, in that pass's window view, the linear solution of
    u0's box coefficients ``coefs`` plus N1 + N2 + N3 (``_duhamel_rows``),
    is normed and goes over u's rows.  Every stage is row-local: no bit
    depends on the partition.
    """
    (add, norms), (add_diff, diff_norms) = _z_sums(*z_args), _z_sums(*z_args)
    *_, blocks = _product_blocks(u, None, _eta_weight(T), reflect=True,
                                 row_bytes=_step_row_bytes(u.grid))
    for rows, block in blocks:
        np.multiply(u.grid.tau_step, block, out=block)
        _duhamel_rows(block, plan, rows, coefs[rows])
        add(rows, block)
        add_diff(rows, block, u.data[rows])
        u.data[rows] = block
    return norms()[0], diff_norms()[0]


def _step_row_bytes(grid):
    """A Picard step's bytes a row: a tau-row at length P, in whose window
    the row is formed, _STEP_BYTES an entry and N1's moments (24 a term and
    sample, for every term)."""
    return 16 * _workspace(grid)[0][-1] + _STEP_BYTES * grid.n_tau \
        + 24 * _SERIES_MAX_TERMS * int(2.0 * SUPPORT / grid.tau_step + 2)


def _box_coefficients(grid, u0):
    """u0's coefficient at every box column, zero where it has none, once
    ``cutoffs._spatial_pairs`` has checked u0."""
    ns, vals = cutoffs._spatial_pairs(grid, u0)
    coefs = np.zeros(grid.box_count, dtype=np.complex128)
    coefs[grid.flat_keys(ns)] = vals
    return coefs


def _on_box(u):
    """A copy of u on every box column and the whole window, in box order."""
    return SpaceTimeField(u.grid, u.grid.box_index.copy(), u.box_array())


# -- flat binary field dumps --------------------------------------------------

_HEADER = struct.Struct("<iiddd")  # dimension, n_max, tau_min, tau_max, tau_step


def dump_field(u, path):
    """Write a field as header + little-endian complex64 in row-major (n, tau)
    order: every box column's window, zero where u stores nothing, a block
    of box rows (an eighth of ``grid._BLOCK_BYTES``) at a time."""
    grid, keys, (lo, hi) = u.grid, u.grid.flat_keys(u.index), u.stored
    with open(path, "wb") as f:
        f.write(_HEADER.pack(grid.dimension, grid.n_max, grid.tau_min, grid.tau_max,
                             grid.tau_step))
        for part in _row_blocks(grid.box_count, 64 * grid.n_tau):
            rows = np.zeros((part.stop - part.start, grid.n_tau), dtype="<c8")
            held = slice(*np.searchsorted(keys, (part.start, part.stop)))
            rows[keys[held] - part.start, lo:hi] = u.data[held]
            rows.tofile(f)


def load_field(path):
    """Read a field written by dump_field (complex64 payload widens to complex128)."""
    with open(path, "rb") as f:
        dim, n_max, tau_min, tau_max, tau_step = _HEADER.unpack(f.read(_HEADER.size))
        grid = FrequencyGrid(dim, n_max, tau_max, tau_step)
        payload = np.frombuffer(f.read(), dtype="<c8")
    return SpaceTimeField.from_columns(grid, grid.box_index, payload)
