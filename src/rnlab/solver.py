"""Picard fixed-point scheme for i u_t + Laplacian u = conj(u)^2.

The Duhamel map is realized entirely on space-time Fourier data.  With
F = eta_{2T} conj(u) * eta_{2T} conj(v) (data: one dealiased product of the
reflected factors' (x, t) samples times eta_{2T}) and sigma = tau + |n|^2,
the three nonlinear pieces are

  N1: psi(sigma)-localized part of the Duhamel multiplier, realized through
      the Taylor series (e^{it sigma}-1)/(i sigma) = sum_k (it)^k sigma^{k-1}/k!
      whose k-th term is a t^k eta(t) free evolution, i.e. a column profile
      F(t^k eta)(sigma) times the sigma^{k-1}-moment of F;
  N2: the stationary-phase remainder collapsed in tau and freely evolved:
      i * F(eta)(sigma) * Int F (1-psi)/(i sigma) dtau;
  N3: the pointwise multiplier -i (1-psi(sigma))/(i sigma) applied to F.

With the real r = (1-psi(sigma))/sigma, N2 = F(eta)(sigma) Int F r dtau and
N3 = -r F.  Everything that depends only on the grid, the cutoffs and the
norm parameters lives in a PicardPlan built once per solve.  The fixed-point
iterate is Gamma[u] = eta(t) e^{it Lap} u0 + N1 + N2 + N3 applied with v = u,
where N2 enters N1's series as its k = 0 term.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import cutoffs
from .cutoffs import SUPPORT, free_evolution_data, standard_bump
from .grid import (FrequencyGrid, SpaceTimeField, _block_rows, _padded_product, _row_blocks,
                   _weight_rows, _workspace, conjugate_reflect)
from .norms import NormParams, _lo_rows, _tau_integral, _y_weight, _z_apply, spatial_hs_norm

_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 60
_SERIES_ALIGN = 64  # lattice columns: a multiple of any BLAS kernel's column unroll


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

    Only ``final`` is kept; ``picard_solve`` streams the others to its
    ``on_iterate`` callback, so its memory does not grow with the iterations.
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

    The reflected factors go through ``grid._padded_product`` weighted by
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
    # no name here holds a reflected factor, so the product frees each once it
    # is transformed (CPython 3.11 and later hand a call's arguments over)
    return _padded_product(conjugate_reflect(u), None if v is u else conjugate_reflect(v),
                           _eta_weight(T))


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
    ``offsets``: each column's position of tau_0 on the sigma-lattice
    sigma_j = (j - j_max) tau_step of ``cutoffs.sigma_lattice``,
    |n|^2 / tau_step - half + j_max, for N1's series.  ``r`` (``_r_weight``)
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
        _, j_max = cutoffs.sigma_lattice(grid, t_power=0)
        offsets = cutoffs.profile_offsets(grid, nsq, j_max)
        window = (0, grid.n_tau)
        lo_factors = _lo_rows(grid, nsq.astype(float), window, p.b)
        for a in (cols, sigma, psi, offsets, *lo_factors[0], lo_factors[1]):
            a.setflags(write=False)
        return cls(grid, cols, sigma, psi, offsets, _weight_rows(grid, nsq, window, _r_weight),
                   _weight_rows(grid, nsq, window, lambda sigma: _y_weight(sigma, p.s, p.b)),
                   lo_factors)


def _n1_terms(fhat, plan, rows):
    """N1's Taylor coefficients a_k (K,) and sigma-lattices F(t^k eta), k = 1, 2, ...

    a_k = -(i^k / k!) g_k with the moment g_k(n) = Int F psi sigma^{k-1} dtau,
    taken over the supp-psi band of each column only.  The series is
    truncated on the coefficients: the bound max|a_k| * max|F(t^k eta)| on
    the largest entry of term k must fall below 1e-12 of the largest bound
    so far twice in a row.  |sigma| <= 2 on supp psi keeps the terms bounded
    by 4^k / k!, so the sigma -> 0 limit is removable by construction.
    """
    grid = plan.grid
    cols, sigma = plan.cols[rows], plan.sigma[rows]
    weighted = (np.take_along_axis(fhat.data, cols, axis=1) * plan.psi[rows]
                * grid.tau_weights[cols])
    sigma_pow = np.ones_like(sigma)
    coefs, lattices = [], []
    coef = 1.0
    largest = 0.0
    below = 0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        coef *= 1j / k  # builds i^k / k!
        a = (-coef) * (weighted * sigma_pow).sum(axis=1)
        lattice, _ = cutoffs.sigma_lattice(grid, t_power=k)
        coefs.append(a)
        lattices.append(lattice)
        bound = np.abs(a).max() * np.abs(lattice).max()
        largest = max(largest, bound)
        if bound <= _SERIES_TOL * max(largest, 1e-300):
            below += 1
            if below >= 2:
                break
        else:
            below = 0
        sigma_pow = sigma_pow * sigma
    return coefs, lattices


def _rows(fhat):
    """fhat's rows in a plan's box arrays; on the whole box a slice, so they are views."""
    if fhat.n_columns == fhat.grid.box_count:
        return slice(None)
    return fhat.grid.flat_keys(fhat.index)


def _r_blocks(fhat, plan):
    """(rows, r at fhat's columns of those rows) over the row blocks of
    ``grid._row_blocks``, 24 bytes an entry: the gathered r and a complex
    product of it."""
    box_rows = np.arange(fhat.grid.box_count)[_rows(fhat)]
    for rows in _row_blocks(fhat.n_columns, 24 * fhat.grid.n_tau):
        yield rows, plan.r(box_rows[rows])


def _add_series(out, coefs, lattices, offsets):
    """out[i] += the (K x terms) @ (terms x lattice) series' row i from
    offsets[i] on, n_tau long: its sigma-lattice at column i.

    Each block of lattice columns is one BLAS product of the coefficients
    and that block of the cached lattice rows, added into the row windows
    it reaches, so no whole series or lattice stack exists.  Blocks start at
    multiples of _SERIES_ALIGN and the last takes the remainder: each column
    then passes the BLAS kernel as in the whole product and keeps its bits,
    where a one-column block (a matrix-vector product), a narrow one or a
    split by rows changes last bits.  So this partition is its own, aligned
    to zgemm's grouping of columns, not ``grid._row_blocks``.
    """
    coefs = np.stack(coefs, axis=1)
    K, n_tau = out.shape
    n = len(lattices[0])
    step = _series_step(K, coefs.shape[1])
    starts = range(0, max(n - step, 0) + 1, step)
    for a, b in zip(starts, [*starts[1:], n]):
        # a BLAS product: einsum took 0.42 s against 0.035 s at d=1, n_max=32,
        # and solve reports match on 1 and 2 BLAS threads
        block = coefs @ np.stack([lattice[a:b] for lattice in lattices])
        for i in np.flatnonzero((offsets < b) & (offsets + n_tau > a)):
            lo, hi = max(a, offsets[i]), min(b, offsets[i] + n_tau)
            out[i, lo - offsets[i]:hi - offsets[i]] += block[i, lo - a:hi - a]
        del block  # not alive beside the next one


def _series_step(K, terms):
    """Lattice columns of one block of the series of K rows and ``terms`` terms:
    as many whole _SERIES_ALIGN as _BLOCK_BYTES holds of K + terms rows (the
    block's result and its lattice stack), and at least one _SERIES_ALIGN."""
    columns = _block_rows(16 * (K + terms))
    return max(_SERIES_ALIGN, columns // _SERIES_ALIGN * _SERIES_ALIGN)


def _eta_lattice(plan):
    return cutoffs.sigma_lattice(plan.grid, t_power=0)


def duhamel_n1(fhat, plan):
    """psi-localized Duhamel piece via the convergent Taylor construction.

    Term k is a_k(n) F(t^k eta)(sigma) (``_n1_terms``).  The output is one
    (columns x terms) @ (terms x lattice) contraction of the cached
    sigma-lattice rows, gathered at each column's |n|^2 shift.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    out = np.zeros(fhat.data.shape, dtype=np.complex128)
    _add_series(out, *_n1_terms(fhat, plan, rows), plan.offsets[rows])
    return SpaceTimeField(fhat.grid, fhat.index.copy(), out)


def duhamel_n2(fhat, plan):
    """Collapsed high-modulation piece i F(eta)(sigma) Int F (1-psi)/(i sigma) dtau.

    Written with the multiplier as -i r, which rounds as the complex
    (1-psi)/(i sigma) does.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    grid = fhat.grid
    # no block is a lone row, so each row's integral is the whole array's
    column_sums = -1j * np.concatenate([_tau_integral(fhat.data[rows] * r, grid.tau_weights)
                                        for rows, r in _r_blocks(fhat, plan)])
    profile = cutoffs.gather_profile(grid, fhat.norm_sq_columns(), *_eta_lattice(plan))
    return SpaceTimeField(grid, fhat.index.copy(), 1j * profile * column_sums[:, None])


def duhamel_n3(fhat, plan):
    """Stationary high-modulation piece: -r F, the multiplier -i (1-psi)/(i sigma)."""
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    out = np.empty_like(fhat.data)
    for rows, r in _r_blocks(fhat, plan):
        np.multiply(-fhat.data[rows], r, out=out[rows])
    return SpaceTimeField(fhat.grid, fhat.index.copy(), out)


def duhamel_rhs(fhat, plan):
    """N1 + N2 + N3 of the product data ``fhat`` in one new array; ``fhat``
    is left as it is (``_duhamel_step`` on a copy)."""
    return _duhamel_step(fhat.copy(), plan)


def _duhamel_step(fhat, plan):
    """N1 + N2 + N3 of the product data ``fhat``, formed in fhat's own array.

    N2 is the k = 0 term of N1's series, with coefficient Int F r dtau and
    the F(eta) lattice.  N1's coefficients are taken from F first; then the
    array is scaled to F r, a block of rows at a time (``_r_blocks``), Int
    F r dtau is taken from it, it is negated in place to N3 = -r F, and the
    one contraction adds N1 + N2 into it: (-r F) + series rounds as
    series - r F does.
    """
    if fhat.n_columns == 0:
        return SpaceTimeField.zero(fhat.grid)
    rows = _rows(fhat)
    coefs, lattices = _n1_terms(fhat, plan, rows)
    out = fhat.data
    for block, r in _r_blocks(fhat, plan):
        np.multiply(out[block], r, out=out[block])
        del r  # not alive beside the next block or the series
    high_sums = _tau_integral(out, plan.grid.tau_weights)
    np.negative(out, out=out)
    _add_series(out, [high_sums] + coefs, [_eta_lattice(plan)[0]] + lattices,
                plan.offsets[rows])
    return fhat


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

    With K box columns: two iterate fields (current and next, at any
    max_iterations), the plan (the psi band, and r and the Z weight on the
    sigma-lattice; its lo entries are left out, a few per column), and the
    larger step transient.  The product holds its reflected factor (its
    result is the next iterate), one block of tau-rows at length P and two
    spatial workspaces at eta's t-nodes; the Duhamel step, formed in the
    product's array, holds one block of N1's series and lattice rows: the
    ``_series_terms`` its tolerance can reach, on fewer than two blocks'
    worth of lattice columns, since the last block takes the remainder.
    The product's transient exceeds the blocks that gather r, that add the
    linear solution and that take the Z-norms.  Cached cutoff transforms
    are not counted.
    """
    K, M = grid.box_count, grid.n_tau
    shape, _, n_live, _ = _workspace(grid, _eta_weight(params.T))
    P = shape[-1]
    lattice = M + 2 * grid.dimension * grid.n_max**2 / grid.tau_step
    plan = 24 * K * (2.0 * SUPPORT / grid.tau_step + 2) + 16 * lattice
    product = 16 * K * M + 16 * P * min(K, _block_rows(16 * P) + 1) \
        + 32 * math.prod(shape[:-1]) * n_live
    series = 16 * (K + _series_terms()) * min(lattice, 2 * _series_step(K, 0))
    return int(16 * K * M * 2 + plan + max(product, series))


def _series_terms():
    """Terms of the Duhamel step's series that ``_n1_terms``' tolerance can
    reach, N2's k = 0 term included: with |sigma| <= 2 on supp psi and
    |t| <= 2 on supp eta, term k is bounded by a multiple of 4^k / k!, which
    first falls below _SERIES_TOL times its largest value (10.7, at k = 3
    and 4) at k = 27, and the series stops on the next term: 29 terms, where
    the d=1 and d=2 solves at n_max 4-32 take 22 or 23."""
    bounds = [4.0**k / math.factorial(k) for k in range(1, _SERIES_MAX_TERMS + 1)]
    return 2 + next(k for k, c in enumerate(bounds, 1) if c <= _SERIES_TOL * max(bounds))


def picard_solve(u0, params, grid, initial=None, on_iterate=None):
    """Iterate Gamma[u] = eta e^{it Lap} u0 + N(u, u) from the linear solution.

    ``u0`` is spatial data as a (columns, values) pair or box array;
    ``initial``, a field on ``grid``, replaces the linear solution as the
    first iterate.  Both are taken onto every box column, where the
    ``PicardPlan`` lives.  The returned trace keeps only the last iterate;
    ``on_iterate(k, field)``, when given, receives iterate k as soon as it
    is made, from k = 0 up to and including one that diverges.  Raises
    DivergenceError (trace attached) when an iterate's Z-norm is not
    finite or exceeds ten times the ball radius, the Z-norm of the linear
    solution.

    A step holds the current iterate, the next one and the plan: the
    Duhamel step is formed in the product's array, the linear solution is
    added into it a block of rows at a time from u0's box coefficients, and
    the Z-norms run in row blocks (``norms._z_apply``).
    """
    if initial is not None:
        grid.assert_compatible(initial.grid)
    plan = PicardPlan.build(grid, params.norm_params())
    fnsq, w = FrequencyGrid.norm_sq(grid.box_index).astype(float), grid.tau_weights
    def z_norm(data, minus=None):  # the plan holds the Z weight of params.s
        return _z_apply(data, fnsq, plan.lo_factors, lambda s: plan.y_weight, [params.s], w,
                        minus)[0]
    trace = IterationTrace()
    current = _on_box(free_evolution_data(grid, u0))
    coefs = _box_coefficients(grid, u0)
    z0 = z_norm(current.data)
    radius = max(z0, 1e-12)
    if initial is not None:
        current = _on_box(initial)
        z0 = z_norm(current.data)
    emit = on_iterate or (lambda k, u: None)
    trace.final = current
    trace.z_norms.append(z0)
    emit(0, current)
    for k in range(1, params.max_iterations + 1):
        # the product is not held through the norms and the next product
        nxt = _duhamel_step(nonlinear_fourier_data(current, current, params.T), plan)
        if not nxt.n_columns:  # -0.0 + x is x bit for bit: nxt is the linear solution
            nxt = SpaceTimeField(grid, grid.box_index.copy(),
                                 np.full((grid.box_count, grid.n_tau), complex(-0.0, -0.0)))
        _add_free_evolution(nxt.data, grid, coefs)
        z = z_norm(nxt.data)
        diff = z_norm(nxt.data, minus=current.data)
        trace.final = current = nxt
        trace.z_norms.append(z)
        trace.successive_diffs.append(diff)
        emit(k, nxt)
        if not math.isfinite(z) or z > 10.0 * radius:
            raise DivergenceError(
                f"iterate Z-norm {z:.3e} exceeded 10x ball radius {radius:.3e}", trace
            )
        if diff < params.contraction_tolerance:
            trace.converged = True
            break
    return trace


def _box_coefficients(grid, u0):
    """u0's coefficient at every box column, zero where it has none; u0 has
    passed ``free_evolution_data``'s checks."""
    ns, vals = cutoffs._spatial_pairs(grid, u0)
    keep = vals != 0
    coefs = np.zeros(grid.box_count, dtype=np.complex128)
    coefs[grid.flat_keys(ns[keep])] = vals[keep]
    return coefs


def _add_free_evolution(out, grid, coefs):
    """out += eta(t) e^{it Lap} u0 on the box and window, from u0's box
    coefficients ``coefs``, in the row blocks of ``grid._row_blocks``.

    Each block is ``free_evolution_rows``, as in ``free_evolution_data``, so
    its bits are those of the linear solution; a zero coefficient adds +0.0
    rows, as the box array of that solution holds.
    """
    nsq = FrequencyGrid.norm_sq(grid.box_index)
    for rows in _row_blocks(len(coefs), 16 * grid.n_tau):
        block = cutoffs.free_evolution_rows(grid, nsq[rows], coefs[rows])
        block[coefs[rows] == 0] = 0.0
        out[rows] += block
        del block  # not alive beside the next one


def _on_box(u):
    """u on every box column and the whole window, in box order."""
    if u.n_columns == u.grid.box_count and u.stored == (0, u.grid.n_tau):
        return u
    return SpaceTimeField(u.grid, u.grid.box_index.copy(), u.box_array())


# -- flat binary field dumps --------------------------------------------------

_HEADER = struct.Struct("<iiddd")  # dimension, n_max, tau_min, tau_max, tau_step


def dump_field(u, path):
    """Write a field as header + little-endian complex64 in row-major (n, tau) order."""
    box = u.box_array().reshape(u.grid.box_count, u.grid.n_tau)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(u.grid.dimension, u.grid.n_max,
                             u.grid.tau_min, u.grid.tau_max, u.grid.tau_step))
        f.write(np.ascontiguousarray(box.astype(np.complex64)).tobytes())


def load_field(path):
    """Read a field written by dump_field (complex64 payload widens to complex128)."""
    with open(path, "rb") as f:
        dim, n_max, tau_min, tau_max, tau_step = _HEADER.unpack(f.read(_HEADER.size))
        grid = FrequencyGrid(dim, n_max, tau_max, tau_step)
        payload = np.frombuffer(f.read(), dtype="<c8")
    return SpaceTimeField.from_columns(grid, grid.box_index, payload)
